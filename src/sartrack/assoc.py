"""Two-stage score-split association with motion-aware appearance gating,
Hungarian assignment, and track lifecycle management.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._solver import linear_sum_assignment
from .core import (BBox, Detection, DetectionBlock, TrajectorySet, int_column, iou,
                   row_norms)
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


def hungarian(cost, max_cost: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-total-cost one-to-one assignment as (rows, cols) index arrays
    in row order; pairs costing more than max_cost are left out."""
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite values")
    rows, cols = linear_sum_assignment(cost)
    ok = cost[rows, cols] <= max_cost
    return rows[ok], cols[ok]


def iou_cost(track_boxes, det_boxes) -> np.ndarray:
    cost = iou(track_boxes, det_boxes)
    return np.subtract(1.0, cost, out=cost)


def appearance_cost(track_emb: np.ndarray, track_has: np.ndarray,
                    det_emb: np.ndarray, det_has: np.ndarray) -> np.ndarray:
    """Cosine-based cost in [0,1] between rows of two embedding blocks;
    NaN marks pairs where either has-embedding mask is unset."""
    out = np.full((len(track_has), len(det_has)), np.nan)
    ti, dj = np.flatnonzero(track_has), np.flatnonzero(det_has)
    if ti.size and dj.size:
        out[np.ix_(ti, dj)] = (1.0 - track_emb[ti] @ det_emb[dj].T) / 2.0
    return out


def motion_gate(v_track, v_det, cfg: TrackerConfig) -> np.ndarray:
    """Pairs whose larger motion awareness reaches the gate threshold."""
    return np.maximum.outer(v_track, v_det) >= cfg.tau_v


def maa_fuse(iou_c: np.ndarray, app_c: np.ndarray, v_track, v_det,
             cfg: TrackerConfig, gate: np.ndarray | None = None) -> np.ndarray:
    """Blend appearance into the IoU cost, discarding it for pairs whose
    motion awareness crosses the gate threshold (or lacks an embedding).
    ``gate``, if given, is ``motion_gate(v_track, v_det, cfg)`` built by the
    caller."""
    iou_c, app_c = np.asarray(iou_c, dtype=float), np.asarray(app_c, dtype=float)
    if iou_c.shape != app_c.shape:
        raise ValueError(f"shape mismatch: {iou_c.shape} vs {app_c.shape}")
    if gate is None:
        gate = motion_gate(v_track, v_det, cfg)
    return np.where(gate | np.isnan(app_c), iou_c,
                    cfg.lambda_app * app_c + (1.0 - cfg.lambda_app) * iou_c)


class Tracker:
    """Frame-by-frame tracker state for one sequence.

    The live tracks form one table in creation order: row i of each column
    in `_COLUMNS` is one track. `age` counts frames since the last match,
    `state` indexes `Lifecycle`, `emb` (N, D) is the appearance EMA where
    `has_emb` is set, D fixed by the first embedding seen, and `mean` (N, 8)
    and `cov` (N, 2, 2, 6) are the Kalman state. A frame updates and ages the
    rows with masked array expressions. An append-only log keeps one
    (frame, ids, box rows) entry per frame for the matched and spawned rows,
    so a track's logged boxes number its hits; `trajectories()` reads it.
    Stage 1 builds appearance and gate terms only on a frame where a
    high-score detection has a look and tau_v > 0; other frames match on IoU.
    """

    # Each column's dtype and the shape of one row.
    _COLUMNS = {"ids": (np.int64, ()), "hits": (np.int64, ()), "age": (np.int64, ()),
                "state": (np.int8, ()), "cls": (np.int64, ()), "v_ema": (float, ()),
                "emb": (float, (0,)), "has_emb": (bool, ()), "mean": (float, (8,)),
                "cov": (float, (2, 2, 6))}

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        for name, (dtype, shape) in self._COLUMNS.items():
            setattr(self, name, np.zeros((0, *shape), dtype=dtype))
        self._log = []  # (frame, ids, boxes) entries
        self._next_id = 1
        self._speed_max = 1e-9

    @property
    def tracks(self) -> list[TrackRow]:
        """The live rows, in creation order."""
        return list(map(TrackRow, self.ids.tolist(),
                        map(_LIFECYCLES.__getitem__, self.state.tolist()),
                        self.hits.tolist(), self.age.tolist(), self.v_ema.tolist()))

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
        if take.any():
            # A row without an embedding takes the detection's as it is.
            r, e = rows[take], emb[take]
            mix = self.has_emb[r]
            self.emb[r[~mix]], self.has_emb[r] = e[~mix], True
            r, a = r[mix], self.cfg.ema_alpha
            mixed = a * self.emb[r] + (1.0 - a) * e[mix]
            n = row_norms(mixed)
            self.emb[r[n > 0]] = mixed[n > 0] / n[n > 0, None]
        v_obs = np.where(np.isnan(ma), np.minimum(speeds / speed_max[1:], 1.0), ma)
        va = self.cfg.v_ema_alpha
        v = va * self.v_ema[rows] + (1.0 - va) * v_obs
        self.v_ema[rows] = np.minimum(np.maximum(0.0, v), 1.0)  # np.clip's bits, -0.0 kept

    def step(self, frame: int, detections: DetectionBlock | list[Detection],
             cmc: Affine2x3 | None = None) -> list[tuple[int, BBox]]:
        """Advance one frame, later than the last; returns (id, box) for
        confirmed tracks matched this frame. The first embedding seen fixes
        the width of the table's."""
        cfg = self.cfg
        if self._log and frame <= self._log[-1][0]:
            raise ValueError(f"frame {frame} does not follow frame {self._log[-1][0]}")
        block = (detections if isinstance(detections, DetectionBlock)
                 else DetectionBlock.of(frame, detections))
        if block.frame != frame:
            raise ValueError(f"detections of frame {block.frame} stepped as frame {frame}")
        if block.emb.shape[1] and not self.emb.shape[1] and block.has_emb.any():
            self.emb = np.zeros((len(self.ids), block.emb.shape[1]))
        boxes, score, d_cls, d_ma = block.boxes, block.score, block.class_id, block.ma
        d_emb, d_has = block.embeddings(self.emb.shape[1]), block.has_emb

        if len(self.ids):
            if cmc is not None:
                self.mean, self.cov = apply_cmc(self.mean, self.cov, cmc)
            self.mean, self.cov = kf_predict(self.mean, self.cov)
        pred_boxes = means_to_boxes(self.mean)
        d_v = np.where(np.isnan(d_ma), 0.0, d_ma)  # motion awareness, 0 where absent
        high = np.flatnonzero(score >= cfg.tau_high)
        low = np.flatnonzero((cfg.tau_low <= score) & (score < cfg.tau_high))

        matched = np.zeros(len(self.ids), dtype=bool)
        pairs = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0, dtype=bool),)]
        # With one class among the detections and the live rows, no pair is forbidden.
        one_cls = d_cls.size and (d_cls == d_cls[0]).all() and (self.cls == d_cls[0]).all()

        def assign(rows, dj, cost, max_cost, gates=None):
            """Match pool rows to detections dj; returns those left unmatched."""
            if not one_cls and (cross := self.cls[rows][:, None] != d_cls[dj]).any():
                cost[cross] = FORBIDDEN_COST
            ti, tj = hungarian(cost, max_cost)
            pairs.append((rows[ti], dj[tj],
                          np.ones(len(ti), dtype=bool) if gates is None else gates[ti, tj]))
            matched[rows[ti]] = True
            left = np.ones(len(dj), dtype=bool)
            left[tj] = False
            return dj[left]

        # Stage 1: confirmed + lost tracks vs high-score detections. With no look
        # there, or at tau_v = 0, the blend would be the IoU cost and take no look.
        state = self.state
        pool1 = np.flatnonzero(state != _TENT)
        rest_high = high
        if pool1.size and high.size:
            cost, gate = iou_cost(pred_boxes[pool1], boxes[high]), None
            if cfg.tau_v > 0 and d_has[high].any():
                acost = appearance_cost(self.emb[pool1], self.has_emb[pool1], d_emb[high],
                                        d_has[high])
                v_t, v_d = self.v_ema[pool1], d_v[high]
                gate = motion_gate(v_t, v_d, cfg)
                cost = maa_fuse(cost, acost, v_t, v_d, cfg, gate)
            rest_high = assign(pool1, high, cost, cfg.match_thresh_stage1, gate)

        # Stage 2: still-confirmed leftovers vs low-score detections, IoU only.
        pool2 = pool1[~matched[pool1] & (state[pool1] == _CONF)]
        if pool2.size and low.size:
            assign(pool2, low, iou_cost(pred_boxes[pool2], boxes[low]), cfg.match_thresh_stage2)

        # Tentative tracks chase the remaining high-score detections (IoU only).
        tent = np.flatnonzero(state == _TENT)
        if tent.size and rest_high.size:
            rest_high = assign(tent, rest_high, iou_cost(pred_boxes[tent], boxes[rest_high]),
                               cfg.match_thresh_stage1)

        # One stage's matches are used as they are; several are joined.
        rows, dj, gates = pairs[1] if len(pairs) == 2 else map(np.concatenate, zip(*pairs))
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
        self._log.append((frame, ids, boxes[dj]))
        conf = state[rows] == _CONF
        emitted = list(zip(ids[conf].tolist(), block.bboxes(dj[conf])))
        if matched.all():
            return emitted

        # Age out every row left unmatched: TENTATIVE and LOST past max_age
        # are removed, CONFIRMED becomes LOST.
        idle = ~matched
        self.age[idle] += 1
        removed = idle & ((state == _TENT) | ((state == _LOST) & (self.age > cfg.max_age)))
        state[idle & (state == _CONF)] = _LOST
        if removed.any():
            for name in self._COLUMNS:
                setattr(self, name, getattr(self, name)[~removed])
        return emitted

    def trajectories(self) -> TrajectorySet:
        """All boxes of tracks that ever confirmed, earliest frames included,
        in id order. A track confirms when its hits, which are its logged
        boxes, reach `n_init`, so the count alone tells which tracks did."""
        if not self._log:
            return TrajectorySet()
        frames, ids, boxes = zip(*self._log)
        counts = list(map(len, ids))
        ids = np.concatenate(ids)
        # The log runs in frame order, so a stable sort by id keeps each
        # track's frames rising.
        order = np.flatnonzero(np.bincount(ids)[ids] >= self.cfg.n_init)
        order = order[np.argsort(ids[order], kind="stable")]
        boxes = np.concatenate(boxes)[order]
        return TrajectorySet(ids[order], np.repeat(int_column(frames), counts)[order], boxes)


def track_sequence(frame_detections: dict[int, DetectionBlock | list[Detection]],
                   cmc_by_frame: dict[int, Affine2x3] | None = None,
                   cfg: TrackerConfig | None = None) -> TrajectorySet:
    """Run the tracker over a whole sequence and collect trajectories. A frame
    without detections between two with some still predicts, applies its CMC
    and ages the live tracks; once none is live, the rest of the gap cannot
    change anything and is skipped."""
    tracker, cmc = Tracker(cfg), cmc_by_frame or {}
    frames = sorted(frame_detections)
    for last, frame in zip(frames[:1] + frames, frames):
        for empty in range(last + 1, frame):
            if not len(tracker.ids):
                break
            tracker.step(empty, [], cmc.get(empty))
        tracker.step(frame, frame_detections[frame], cmc.get(frame))
    return tracker.trajectories()
