"""Two-stage score-split association with motion-aware appearance gating,
Hungarian assignment, and track lifecycle management.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, compress, islice

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import BBox, Detection, TrajectorySet, as_xywh, iou
from .motion import (Affine2x3, apply_cmc, boxes_to_measurements, kf_init,
                     kf_predict, kf_update, means_to_boxes)

# Large finite cost marking forbidden pairs (cross-class); always above any
# match threshold, kept finite so the assignment solver stays feasible.
FORBIDDEN_COST = 1e6


@dataclass(frozen=True, slots=True)
class TrackerConfig:
    tau_high: float = 0.6
    tau_low: float = 0.1
    match_thresh_stage1: float = 0.8
    match_thresh_stage2: float = 0.5
    n_init: int = 2
    max_age: int = 30
    lambda_app: float = 0.3
    tau_v: float = 0.5
    ema_alpha: float = 0.9
    v_ema_alpha: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.tau_low < self.tau_high <= 1.0:
            raise ValueError("need 0 <= tau_low < tau_high <= 1")
        for name in ("match_thresh_stage1", "match_thresh_stage2",
                     "lambda_app", "tau_v", "ema_alpha", "v_ema_alpha"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {getattr(self, name)}")
        for name, least in (("n_init", 1), ("max_age", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


class Lifecycle(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    LOST = "lost"
    REMOVED = "removed"


# `Tracker.state` indexes this tuple; removed rows leave the table at once.
_LIFECYCLES = tuple(Lifecycle)
_TENT, _CONF, _LOST = range(3)

# A read-only copy of one live row of the tracker's table.
TrackRow = namedtuple("TrackRow", "id lifecycle hits age_since_update v_ema")


@dataclass(frozen=True, slots=True)
class AssociationResult:
    matches: tuple[tuple[int, int], ...]
    unmatched_tracks: tuple[int, ...]
    unmatched_detections: tuple[int, ...]


def hungarian(cost, max_cost: float) -> AssociationResult:
    """Minimum-total-cost one-to-one assignment; pairs costing more than
    max_cost are demoted to unmatched."""
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite values")
    rows, cols = linear_sum_assignment(cost)
    ok = cost[rows, cols] <= max_cost
    rows, cols = rows[ok].tolist(), cols[ok].tolist()
    n, m = cost.shape
    return AssociationResult(tuple(zip(rows, cols)),
                             tuple(sorted(set(range(n)).difference(rows))),
                             tuple(sorted(set(range(m)).difference(cols))))


def iou_cost(track_boxes, det_boxes) -> np.ndarray:
    return 1.0 - iou(track_boxes, det_boxes)


def appearance_cost(track_emb: np.ndarray, track_has: np.ndarray,
                    det_emb: np.ndarray, det_has: np.ndarray) -> np.ndarray:
    """Cosine-based cost in [0,1] between rows of two embedding blocks;
    NaN marks pairs where either has-embedding mask is unset."""
    out = np.full((len(track_has), len(det_has)), np.nan)
    ti, dj = np.flatnonzero(track_has), np.flatnonzero(det_has)
    if ti.size and dj.size:
        out[np.ix_(ti, dj)] = (1.0 - track_emb[ti] @ det_emb[dj].T) / 2.0
    return out


def maa_fuse(iou_c: np.ndarray, app_c: np.ndarray, v_track, v_det,
             cfg: TrackerConfig) -> np.ndarray:
    """Blend appearance into the IoU cost, discarding it for pairs whose
    motion awareness crosses the gate threshold (or lacks an embedding)."""
    iou_c, app_c = np.asarray(iou_c, dtype=float), np.asarray(app_c, dtype=float)
    if iou_c.shape != app_c.shape:
        raise ValueError(f"shape mismatch: {iou_c.shape} vs {app_c.shape}")
    gate = (np.maximum.outer(v_track, v_det) >= cfg.tau_v) | np.isnan(app_c)
    return np.where(gate, iou_c, cfg.lambda_app * app_c + (1.0 - cfg.lambda_app) * iou_c)


class Tracker:
    """Frame-by-frame tracker state for one sequence.

    The live tracks form one table in creation order: row i of each column
    in `_COLUMNS` is one track. `age` counts frames since the last match,
    `state` indexes `Lifecycle`, `emb` (N, D) is the appearance EMA where
    `has_emb` is set, D fixed by the first embedding seen, and `mean` (N, 8)
    and `cov` (N, 8, 8) are the Kalman state. A frame updates and ages the
    rows with masked array expressions. An append-only log keeps one
    (frame, ids, boxes) entry per frame for the matched and spawned rows;
    `trajectories()` reads it for the ids that ever confirmed.
    """

    # Each column's dtype and the shape of one row.
    _COLUMNS = {"ids": (np.int64, ()), "hits": (np.int64, ()), "age": (np.int64, ()),
                "state": (np.int8, ()), "cls": (np.int64, ()), "v_ema": (float, ()),
                "emb": (float, (0,)), "has_emb": (bool, ()), "mean": (float, (8,)),
                "cov": (float, (8, 8))}

    def __init__(self, cfg: TrackerConfig | None = None, use_maa: bool = True):
        self.cfg = cfg or TrackerConfig()
        self.use_maa = use_maa
        for name, (dtype, shape) in self._COLUMNS.items():
            setattr(self, name, np.zeros((0, *shape), dtype=dtype))
        # (frame, ids, boxes) log entries, and the ids removed while LOST.
        self._log, self._retired = [], []
        self._next_id = 1
        self._speed_max = 1e-9

    @property
    def tracks(self) -> list[TrackRow]:
        """The live rows, in creation order."""
        return list(map(TrackRow, self.ids.tolist(),
                        map(_LIFECYCLES.__getitem__, self.state.tolist()),
                        self.hits.tolist(), self.age.tolist(), self.v_ema.tolist()))

    def _detection_columns(self, dets: list[Detection]) -> tuple:
        """One frame's detections as (x, y, w, h) boxes, scores, classes,
        motion awareness (NaN if absent), and an embedding block as wide as
        the table's, zero where absent, with its mask. The first embedding
        seen fixes that width."""
        vecs = [d.embedding for d in dets if d.embedding is not None]
        if vecs and not self.emb.shape[1]:
            self.emb = np.zeros((len(self.ids), len(vecs[0])))
        has = np.array([d.embedding is not None for d in dets], dtype=bool)
        emb = np.zeros((len(dets), self.emb.shape[1]))
        emb[has] = np.reshape(vecs, (len(vecs), emb.shape[1]))
        ma = [np.nan if d.motion_awareness is None else d.motion_awareness for d in dets]
        return (as_xywh([d.bbox for d in dets]), np.array([d.score for d in dets], dtype=float),
                np.array([d.class_id for d in dets], dtype=np.int64), np.array(ma), emb, has)

    def _update_tracks(self, rows, boxes, ma, emb, take):
        """Correct the matched rows, in match order, by their detections. Rows
        where `take` is set fold `emb` into their appearance EMA; it is unset
        while the gate fires, so defocused looks never reach that model."""
        mean, cov = kf_update(self.mean[rows], self.cov[rows], boxes_to_measurements(boxes))
        self.mean[rows], self.cov[rows] = mean, cov
        speeds = np.hypot(mean[:, 4], mean[:, 5])
        # Each v_obs divides by the running maximum up to and including its
        # own track, in match order.
        speed_max = np.maximum.accumulate(np.concatenate(([self._speed_max], speeds)))
        self._speed_max = speed_max[-1]
        self.hits[rows] += 1
        self.age[rows] = 0
        confirm = (self.state[rows] == _LOST) | (self.hits[rows] >= self.cfg.n_init)
        self.state[rows[confirm]] = _CONF
        # A row without an embedding takes the detection's as it is.
        r, e = rows[take], emb[take]
        mix = self.has_emb[r]
        self.emb[r[~mix]], self.has_emb[r] = e[~mix], True
        r, a = r[mix], self.cfg.ema_alpha
        mixed = a * self.emb[r] + (1.0 - a) * e[mix]
        # This stacked row-by-row dot product equals a one-row
        # np.linalg.norm bit for bit; np.linalg.norm(axis=1) does not.
        n = np.sqrt(mixed[:, None, :] @ mixed[:, :, None])[:, 0, 0]
        self.emb[r[n > 0]] = mixed[n > 0] / n[n > 0, None]
        v_obs = np.where(np.isnan(ma), np.minimum(speeds / speed_max[1:], 1.0), ma)
        va = self.cfg.v_ema_alpha
        self.v_ema[rows] = np.clip(va * self.v_ema[rows] + (1.0 - va) * v_obs, 0.0, 1.0)

    def step(self, frame: int, detections: list[Detection],
             cmc: Affine2x3 | None = None) -> list[tuple[int, BBox]]:
        """Advance one frame; returns (id, box) for confirmed tracks matched
        this frame."""
        cfg = self.cfg
        if any(d.frame != frame for d in detections):
            raise ValueError("detections from mixed frames")

        if len(self.ids):
            if cmc is not None:
                self.mean, self.cov = apply_cmc(self.mean, self.cov, cmc)
            self.mean, self.cov = kf_predict(self.mean, self.cov)
        pred_boxes = means_to_boxes(self.mean)
        boxes, score, d_cls, d_ma, d_emb, d_has = self._detection_columns(detections)
        d_v = np.where(np.isnan(d_ma), 0.0, d_ma)  # motion awareness, 0 where absent
        high = np.flatnonzero(score >= cfg.tau_high)
        low = np.flatnonzero((cfg.tau_low <= score) & (score < cfg.tau_high))

        matched = np.zeros(len(self.ids), dtype=bool)
        pairs = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0, dtype=bool),)]

        def assign(rows, dj, cost, max_cost, gates=None):
            """Match pool rows to detections dj; returns those left unmatched."""
            cost = np.where(self.cls[rows][:, None] != d_cls[dj][None, :], FORBIDDEN_COST, cost)
            res = hungarian(cost, max_cost)
            ti, tj = np.array(res.matches, dtype=np.intp).reshape(-1, 2).T
            pairs.append((rows[ti], dj[tj],
                          np.ones(len(ti), dtype=bool) if gates is None else gates[ti, tj]))
            matched[rows[ti]] = True
            return dj[np.array(res.unmatched_detections, dtype=np.intp)]

        # Stage 1: confirmed + lost tracks vs high-score detections.
        state = self.state
        pool1 = np.flatnonzero(state != _TENT)
        rest_high = high
        if pool1.size and high.size:
            fused, gates = iou_cost(pred_boxes[pool1], boxes[high]), None
            if self.use_maa:
                acost = appearance_cost(self.emb[pool1], self.has_emb[pool1],
                                        d_emb[high], d_has[high])
                v_t, v_d = self.v_ema[pool1], d_v[high]
                fused = maa_fuse(fused, acost, v_t, v_d, cfg)
                gates = np.maximum.outer(v_t, v_d) >= cfg.tau_v
            rest_high = assign(pool1, high, fused, cfg.match_thresh_stage1, gates)

        # Stage 2: still-confirmed leftovers vs low-score detections, IoU only.
        pool2 = pool1[~matched[pool1] & (state[pool1] == _CONF)]
        if pool2.size and low.size:
            assign(pool2, low, iou_cost(pred_boxes[pool2], boxes[low]), cfg.match_thresh_stage2)

        # Tentative tracks chase the remaining high-score detections (IoU only).
        tent = np.flatnonzero(state == _TENT)
        if tent.size and rest_high.size:
            rest_high = assign(tent, rest_high, iou_cost(pred_boxes[tent], boxes[rest_high]),
                               cfg.match_thresh_stage1)

        rows, dj, gates = map(np.concatenate, zip(*pairs))
        if rows.size:
            self._update_tracks(rows, boxes[dj], d_ma[dj], d_emb[dj], d_has[dj] & ~gates)

        # Spawn fresh tracks from leftover high-score detections. They count
        # as matched: the log takes their boxes and aging skips them.
        if k := rest_high.size:
            means, covs = zip(*map(kf_init, boxes_to_measurements(boxes[rest_high])))
            new = (np.arange(self._next_id, self._next_id + k), np.ones(k, dtype=np.int64),
                   np.zeros(k, dtype=np.int64),
                   np.full(k, _CONF if cfg.n_init <= 1 else _TENT, dtype=np.int8),
                   d_cls[rest_high], d_v[rest_high], d_emb[rest_high], d_has[rest_high], means, covs)
            for name, col in zip(self._COLUMNS, new):
                setattr(self, name, np.concatenate([getattr(self, name), col]))
            self._next_id += k
            rows = np.concatenate([rows, np.arange(len(matched), len(self.ids))])
            dj = np.concatenate([dj, rest_high])
            matched = np.concatenate([matched, np.ones(k, dtype=bool)])
        ids, state = self.ids[rows], self.state
        out_boxes = [detections[j].bbox for j in dj]
        self._log.append((frame, ids, out_boxes))
        emitted = list(compress(zip(ids.tolist(), out_boxes), (state[rows] == _CONF).tolist()))

        # Age out every row left unmatched: TENTATIVE and LOST past max_age
        # are removed, CONFIRMED becomes LOST.
        idle = ~matched
        self.age[idle] += 1
        removed = idle & ((state == _TENT) | ((state == _LOST) & (self.age > cfg.max_age)))
        self._retired += self.ids[removed & (state == _LOST)].tolist()
        state[idle & (state == _CONF)] = _LOST
        if removed.any():
            for name in self._COLUMNS:
                setattr(self, name, getattr(self, name)[~removed])
        return emitted

    def trajectories(self) -> TrajectorySet:
        """All boxes of tracks that ever confirmed, earliest frames included,
        in id order."""
        ids = np.concatenate([np.zeros(0, dtype=np.int64), *(i for _, i, _ in self._log)])
        frames = np.repeat([f for f, _, _ in self._log], [len(i) for _, i, _ in self._log])
        boxes = list(chain.from_iterable(b for _, _, b in self._log))
        order = np.argsort(ids, kind="stable")
        order = order[np.isin(ids[order], self._retired + self.ids[self.state != _TENT].tolist())]
        ids, frames = ids[order], frames[order]
        # The checks of TrajectorySet.build, on the arrays: ids come out of
        # np.unique, and frames must rise within each id.
        bad = np.flatnonzero((np.diff(ids) == 0) & (np.diff(frames) <= 0))
        if bad.size:
            raise ValueError(f"track {ids[bad[0]]} frames not strictly increasing")
        tids, counts = np.unique(ids, return_counts=True)
        # Each track's tuple drains its count of pairs from one shared
        # iterator, so every (frame, box) pair is made once.
        pairs = zip(frames.tolist(), map(boxes.__getitem__, order))
        return TrajectorySet(tuple((tid, tuple(islice(pairs, n)))
                                   for tid, n in zip(tids.tolist(), counts.tolist())))


def track_sequence(frame_detections: dict[int, list[Detection]],
                   cmc_by_frame: dict[int, Affine2x3] | None = None,
                   cfg: TrackerConfig | None = None,
                   use_maa: bool = True) -> TrajectorySet:
    """Run the tracker over a whole sequence and collect trajectories."""
    tracker = Tracker(cfg, use_maa=use_maa)
    for frame in sorted(frame_detections):
        tracker.step(frame, frame_detections[frame], (cmc_by_frame or {}).get(frame))
    return tracker.trajectories()
