"""Two-stage score-split association with motion-aware appearance gating,
Hungarian assignment, and track lifecycle management.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import BBox, Detection, TrajectorySet, iou
from .motion import Affine2x3, KalmanState, apply_cmc, kf_init, kf_predict, kf_update

# Large finite cost marking forbidden pairs (cross-class); always above any
# match threshold, kept finite so the assignment solver stays feasible.
FORBIDDEN_COST = 1e6

_INT_KEYS = {"n_init", "max_age"}


@dataclass(frozen=True)
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
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        if self.n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {self.n_init}")
        if self.max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {self.max_age}")

    @classmethod
    def from_dict(cls, d: dict) -> "TrackerConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for k, v in d.items():
            kwargs[k] = int(v) if k in _INT_KEYS else float(v)
        return cls(**kwargs)


class Lifecycle(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    LOST = "lost"
    REMOVED = "removed"


class Track:
    """One trajectory hypothesis with Kalman state and EMA appearance."""

    def __init__(self, track_id: int, det: Detection, cfg: TrackerConfig):
        self.id = track_id
        self.kstate: KalmanState = kf_init(det.bbox.to_cxcyah())
        self.hits = 1
        self.age_since_update = 0
        self.class_id = det.class_id
        self.ema_embedding = None if det.embedding is None else det.embedding.copy()
        self.v_ema = det.motion_awareness if det.motion_awareness is not None else 0.0
        self.lifecycle = Lifecycle.CONFIRMED if cfg.n_init <= 1 else Lifecycle.TENTATIVE
        self.ever_confirmed = self.lifecycle is Lifecycle.CONFIRMED
        self.history: list[tuple[int, BBox]] = [(det.frame, det.bbox)]

    def predicted_bbox(self) -> BBox:
        cx, cy, a, h = self.kstate.mean[:4]
        a = max(a, 1e-6)
        h = max(h, 1e-6)
        return BBox.from_cxcyah(cx, cy, a, h)

    def mark_confirmed(self):
        self.lifecycle = Lifecycle.CONFIRMED
        self.ever_confirmed = True


@dataclass(frozen=True)
class AssociationResult:
    matches: tuple[tuple[int, int], ...]
    unmatched_tracks: tuple[int, ...]
    unmatched_detections: tuple[int, ...]


def hungarian(cost, max_cost: float) -> AssociationResult:
    """Minimum-total-cost one-to-one assignment; pairs costing more than
    max_cost are demoted to unmatched."""
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    n, m = cost.shape
    if cost.size == 0:
        return AssociationResult((), tuple(range(n)), tuple(range(m)))
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite values")
    rows, cols = linear_sum_assignment(cost)
    matches = []
    for r, c in zip(rows, cols):
        if cost[r, c] <= max_cost:
            matches.append((int(r), int(c)))
    matched_r = {r for r, _ in matches}
    matched_c = {c for _, c in matches}
    return AssociationResult(
        tuple(matches),
        tuple(i for i in range(n) if i not in matched_r),
        tuple(j for j in range(m) if j not in matched_c),
    )


def iou_cost(track_boxes: list[BBox], det_boxes: list[BBox]) -> np.ndarray:
    return 1.0 - iou(track_boxes, det_boxes)


def appearance_cost(tracks: list[Track], dets: list[Detection]) -> np.ndarray:
    """Cosine-based cost in [0,1]; NaN marks pairs lacking an embedding."""
    out = np.full((len(tracks), len(dets)), np.nan)
    for i, t in enumerate(tracks):
        if t.ema_embedding is None:
            continue
        for j, d in enumerate(dets):
            if d.embedding is None:
                continue
            cos = float(np.dot(t.ema_embedding, d.embedding))
            out[i, j] = (1.0 - cos) / 2.0
    return out


def maa_fuse(iou_c: np.ndarray, app_c: np.ndarray, v_track, v_det,
             cfg: TrackerConfig) -> np.ndarray:
    """Blend appearance into the IoU cost, discarding it for pairs whose
    motion awareness crosses the gate threshold (or lacks an embedding)."""
    iou_c = np.asarray(iou_c, dtype=float)
    app_c = np.asarray(app_c, dtype=float)
    if iou_c.shape != app_c.shape:
        raise ValueError(f"shape mismatch: {iou_c.shape} vs {app_c.shape}")
    v_track = np.asarray(v_track, dtype=float)
    v_det = np.asarray(v_det, dtype=float)
    g = np.maximum(v_track[:, None], v_det[None, :])
    gate = (g >= cfg.tau_v) | np.isnan(app_c)
    fused = cfg.lambda_app * app_c + (1.0 - cfg.lambda_app) * iou_c
    return np.where(gate, iou_c, fused)


def _class_mask(cost: np.ndarray, tracks: list[Track], dets: list[Detection]) -> np.ndarray:
    t_cls = np.array([t.class_id for t in tracks])
    d_cls = np.array([d.class_id for d in dets])
    return np.where(t_cls[:, None] != d_cls[None, :], FORBIDDEN_COST, cost)


class Tracker:
    """Frame-by-frame tracker state for one sequence."""

    def __init__(self, cfg: TrackerConfig | None = None, use_maa: bool = True):
        self.cfg = cfg or TrackerConfig()
        self.use_maa = use_maa
        self.tracks: list[Track] = []
        self._next_id = 1
        self._speed_max = 1e-9

    def _live(self) -> list[Track]:
        return [t for t in self.tracks if t.lifecycle is not Lifecycle.REMOVED]

    def _det_v(self, d: Detection) -> float:
        return d.motion_awareness if d.motion_awareness is not None else 0.0

    def _update_track(self, t: Track, d: Detection, gate_active: bool):
        t.kstate = kf_update(t.kstate, d.bbox.to_cxcyah())
        t.hits += 1
        t.age_since_update = 0
        t.history.append((d.frame, d.bbox))
        if t.lifecycle is Lifecycle.LOST:
            t.mark_confirmed()
        elif t.lifecycle is Lifecycle.TENTATIVE and t.hits >= self.cfg.n_init:
            t.mark_confirmed()
        # Appearance EMA is frozen while the gate fires so defocused looks
        # never contaminate the track's appearance model.
        if d.embedding is not None and not gate_active:
            a = self.cfg.ema_alpha
            if t.ema_embedding is None:
                t.ema_embedding = d.embedding.copy()
            else:
                mixed = a * t.ema_embedding + (1.0 - a) * d.embedding
                n = np.linalg.norm(mixed)
                if n > 0:
                    t.ema_embedding = mixed / n
        speed = t.kstate.speed()
        self._speed_max = max(self._speed_max, speed)
        if d.motion_awareness is not None:
            v_obs = d.motion_awareness
        else:
            v_obs = min(speed / self._speed_max, 1.0)
        va = self.cfg.v_ema_alpha
        t.v_ema = min(max(va * t.v_ema + (1.0 - va) * v_obs, 0.0), 1.0)

    def step(self, frame: int, detections: list[Detection],
             cmc: Affine2x3 | None = None) -> list[tuple[int, BBox]]:
        """Advance one frame; returns (id, box) for confirmed tracks matched
        this frame."""
        cfg = self.cfg
        if any(d.frame != frame for d in detections):
            raise ValueError("detections from mixed frames")

        live = self._live()
        if cmc is not None and live:
            states = apply_cmc([t.kstate for t in live], cmc)
            for t, s in zip(live, states):
                t.kstate = s
        for t in live:
            t.kstate = kf_predict(t.kstate)

        high = [d for d in detections if d.score >= cfg.tau_high]
        low = [d for d in detections if cfg.tau_low <= d.score < cfg.tau_high]

        # Stage 1: confirmed + lost tracks vs high-score detections.
        pool1 = [t for t in live if t.lifecycle in (Lifecycle.CONFIRMED, Lifecycle.LOST)]
        matched_tracks: set[int] = set()
        matched_pairs: list[tuple[Track, Detection, bool]] = []
        rest_high = list(high)
        if pool1 and high:
            icost = iou_cost([t.predicted_bbox() for t in pool1], [d.bbox for d in high])
            if self.use_maa:
                acost = appearance_cost(pool1, high)
                v_t = [t.v_ema for t in pool1]
                v_d = [self._det_v(d) for d in high]
                fused = maa_fuse(icost, acost, v_t, v_d, cfg)
                gates = (np.maximum(np.asarray(v_t)[:, None],
                                    np.asarray(v_d)[None, :]) >= cfg.tau_v)
            else:
                fused = icost
                gates = np.ones((len(pool1), len(high)), dtype=bool)
            fused = _class_mask(fused, pool1, high)
            res = hungarian(fused, cfg.match_thresh_stage1)
            for ti, dj in res.matches:
                matched_pairs.append((pool1[ti], high[dj], bool(gates[ti, dj])))
            matched_tracks |= {id(pool1[ti]) for ti, _ in res.matches}
            rest_high = [high[j] for j in res.unmatched_detections]

        # Stage 2: still-confirmed leftovers vs low-score detections, IoU only.
        pool2 = [t for t in pool1
                 if id(t) not in matched_tracks and t.lifecycle is Lifecycle.CONFIRMED]
        if pool2 and low:
            icost = _class_mask(
                iou_cost([t.predicted_bbox() for t in pool2], [d.bbox for d in low]),
                pool2, low)
            res = hungarian(icost, cfg.match_thresh_stage2)
            for ti, dj in res.matches:
                matched_pairs.append((pool2[ti], low[dj], True))
            matched_tracks |= {id(pool2[ti]) for ti, _ in res.matches}

        # Tentative tracks chase the remaining high-score detections (IoU only).
        tent = [t for t in live if t.lifecycle is Lifecycle.TENTATIVE]
        if tent and rest_high:
            icost = _class_mask(
                iou_cost([t.predicted_bbox() for t in tent], [d.bbox for d in rest_high]),
                tent, rest_high)
            res = hungarian(icost, cfg.match_thresh_stage1)
            for ti, dj in res.matches:
                matched_pairs.append((tent[ti], rest_high[dj], True))
            matched_tracks |= {id(tent[ti]) for ti, _ in res.matches}
            rest_high = [rest_high[j] for j in res.unmatched_detections]

        for t, d, gate_active in matched_pairs:
            self._update_track(t, d, gate_active)

        # Spawn fresh tracks from leftover high-score detections.
        spawned = []
        for d in rest_high:
            t = Track(self._next_id, d, cfg)
            self._next_id += 1
            self.tracks.append(t)
            spawned.append((t, d))

        # Age out everything that went unmatched this frame.
        for t in live:
            if id(t) in matched_tracks:
                continue
            t.age_since_update += 1
            if t.lifecycle is Lifecycle.TENTATIVE:
                t.lifecycle = Lifecycle.REMOVED
            elif t.lifecycle is Lifecycle.CONFIRMED:
                t.lifecycle = Lifecycle.LOST
            elif t.lifecycle is Lifecycle.LOST and t.age_since_update > cfg.max_age:
                t.lifecycle = Lifecycle.REMOVED

        emitted = [(t.id, d.bbox) for t, d, _ in matched_pairs
                   if t.lifecycle is Lifecycle.CONFIRMED]
        emitted += [(t.id, d.bbox) for t, d in spawned
                    if t.lifecycle is Lifecycle.CONFIRMED]
        return emitted

    def trajectories(self) -> TrajectorySet:
        """All boxes of tracks that ever confirmed, earliest frames included."""
        out = [(t.id, t.history) for t in self.tracks if t.ever_confirmed]
        return TrajectorySet.build(out)


def track_sequence(frame_detections: dict[int, list[Detection]],
                   cmc_by_frame: dict[int, Affine2x3] | None = None,
                   cfg: TrackerConfig | None = None,
                   use_maa: bool = True) -> TrajectorySet:
    """Run the tracker over a whole sequence and collect trajectories."""
    tracker = Tracker(cfg, use_maa=use_maa)
    cmc_by_frame = cmc_by_frame or {}
    for frame in sorted(frame_detections):
        tracker.step(frame, frame_detections[frame], cmc_by_frame.get(frame))
    return tracker.trajectories()
