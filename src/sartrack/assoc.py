"""Two-stage score-split association with motion-aware appearance gating,
Hungarian assignment, and track lifecycle management.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import BBox, Detection, TrajectorySet, iou
from .motion import Affine2x3, apply_cmc, kf_init, kf_predict, kf_update

# Large finite cost marking forbidden pairs (cross-class); always above any
# match threshold, kept finite so the assignment solver stays feasible.
FORBIDDEN_COST = 1e6


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


class Lifecycle(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    LOST = "lost"
    REMOVED = "removed"


class Track:
    """One trajectory hypothesis: lifecycle and EMA appearance. Its Kalman
    state is a row of the owning Tracker's arrays."""

    def __init__(self, track_id: int, det: Detection, cfg: TrackerConfig):
        self.id = track_id
        self.hits = 1
        self.age_since_update = 0
        self.class_id = det.class_id
        self.ema_embedding = None if det.embedding is None else det.embedding.copy()
        self.v_ema = det.motion_awareness if det.motion_awareness is not None else 0.0
        self.lifecycle = Lifecycle.CONFIRMED if cfg.n_init <= 1 else Lifecycle.TENTATIVE
        self.ever_confirmed = self.lifecycle is Lifecycle.CONFIRMED
        self.history: list[tuple[int, BBox]] = [(det.frame, det.bbox)]

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


def iou_cost(track_boxes, det_boxes) -> np.ndarray:
    return 1.0 - iou(track_boxes, det_boxes)


def appearance_cost(tracks: list[Track], dets: list[Detection]) -> np.ndarray:
    """Cosine-based cost in [0,1]; NaN marks pairs lacking an embedding."""
    out = np.full((len(tracks), len(dets)), np.nan)
    ti = [i for i, t in enumerate(tracks) if t.ema_embedding is not None]
    dj = [j for j, d in enumerate(dets) if d.embedding is not None]
    if ti and dj:
        e_t = np.array([tracks[i].ema_embedding for i in ti])
        e_d = np.array([dets[j].embedding for j in dj])
        out[np.ix_(ti, dj)] = (1.0 - e_t @ e_d.T) / 2.0
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


def _class_mask(cost: np.ndarray, track_cls: np.ndarray, dets: list[Detection]) -> np.ndarray:
    d_cls = np.array([d.class_id for d in dets])
    return np.where(track_cls[:, None] != d_cls[None, :], FORBIDDEN_COST, cost)


def _predicted_xywh(mean: np.ndarray) -> np.ndarray:
    """(N, 8) Kalman means -> (N, 4) predicted (x, y, w, h) boxes, with the
    aspect ratio and height clamped positive."""
    a = np.maximum(mean[:, 2], 1e-6)
    h = np.maximum(mean[:, 3], 1e-6)
    w = a * h
    return np.stack([mean[:, 0] - w / 2.0, mean[:, 1] - h / 2.0, w, h], axis=1)


class Tracker:
    """Frame-by-frame tracker state for one sequence.

    Kalman state lives in two arrays, `mean` (N, 8) and `cov` (N, 8, 8),
    whose rows follow `_live`, the tracks not yet removed, in creation
    order. `tracks` holds the live tracks plus the removed ones that ever
    confirmed; a track that never confirmed is dropped once removed.
    """

    def __init__(self, cfg: TrackerConfig | None = None, use_maa: bool = True):
        self.cfg = cfg or TrackerConfig()
        self.use_maa = use_maa
        self.tracks: list[Track] = []
        self._live: list[Track] = []
        self.mean = np.zeros((0, 8))
        self.cov = np.zeros((0, 8, 8))
        self._next_id = 1
        self._speed_max = 1e-9

    def _update_tracks(self, matched_pairs: list[tuple[int, Detection, bool]]):
        rows = [r for r, _, _ in matched_pairs]
        z = np.array([d.bbox.to_cxcyah() for _, d, _ in matched_pairs])
        mean, cov = kf_update(self.mean[rows], self.cov[rows], z)
        self.mean[rows], self.cov[rows] = mean, cov
        speeds = np.hypot(mean[:, 4], mean[:, 5])
        # Each v_obs divides by the running maximum up to and including its
        # own track, in match order.
        speed_max = np.maximum.accumulate(np.concatenate(([self._speed_max], speeds)))
        self._speed_max = speed_max[-1]
        a, va = self.cfg.ema_alpha, self.cfg.v_ema_alpha
        for (r, d, gate_active), speed, smax in zip(matched_pairs, speeds, speed_max[1:]):
            t = self._live[r]
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
                if t.ema_embedding is None:
                    t.ema_embedding = d.embedding.copy()
                else:
                    mixed = a * t.ema_embedding + (1.0 - a) * d.embedding
                    n = np.linalg.norm(mixed)
                    if n > 0:
                        t.ema_embedding = mixed / n
            if d.motion_awareness is not None:
                v_obs = d.motion_awareness
            else:
                v_obs = min(speed / smax, 1.0)
            t.v_ema = min(max(va * t.v_ema + (1.0 - va) * v_obs, 0.0), 1.0)

    def step(self, frame: int, detections: list[Detection],
             cmc: Affine2x3 | None = None) -> list[tuple[int, BBox]]:
        """Advance one frame; returns (id, box) for confirmed tracks matched
        this frame."""
        cfg = self.cfg
        if any(d.frame != frame for d in detections):
            raise ValueError("detections from mixed frames")

        live = self._live
        if live:
            if cmc is not None:
                self.mean, self.cov = apply_cmc(self.mean, self.cov, cmc)
            self.mean, self.cov = kf_predict(self.mean, self.cov)
        pred_boxes = _predicted_xywh(self.mean)
        classes = np.array([t.class_id for t in live])

        high = [d for d in detections if d.score >= cfg.tau_high]
        low = [d for d in detections if cfg.tau_low <= d.score < cfg.tau_high]

        matched_rows: set[int] = set()
        matched_pairs: list[tuple[int, Detection, bool]] = []

        def assign(rows, dets, cost, max_cost, gates=None):
            """Match pool rows to dets; returns the dets left unmatched."""
            res = hungarian(_class_mask(cost, classes[rows], dets), max_cost)
            for ti, dj in res.matches:
                gate = True if gates is None else bool(gates[ti, dj])
                matched_pairs.append((rows[ti], dets[dj], gate))
                matched_rows.add(rows[ti])
            return [dets[j] for j in res.unmatched_detections]

        # Pools hold row indices into the state arrays and `live`.
        # Stage 1: confirmed + lost tracks vs high-score detections.
        pool1 = [r for r, t in enumerate(live)
                 if t.lifecycle in (Lifecycle.CONFIRMED, Lifecycle.LOST)]
        rest_high = list(high)
        if pool1 and high:
            icost = iou_cost(pred_boxes[pool1], [d.bbox for d in high])
            if self.use_maa:
                acost = appearance_cost([live[r] for r in pool1], high)
                v_t = [live[r].v_ema for r in pool1]
                v_d = [0.0 if d.motion_awareness is None else d.motion_awareness
                       for d in high]
                fused = maa_fuse(icost, acost, v_t, v_d, cfg)
                gates = (np.maximum(np.asarray(v_t)[:, None],
                                    np.asarray(v_d)[None, :]) >= cfg.tau_v)
            else:
                fused = icost
                gates = None
            rest_high = assign(pool1, high, fused, cfg.match_thresh_stage1, gates)

        # Stage 2: still-confirmed leftovers vs low-score detections, IoU only.
        pool2 = [r for r in pool1
                 if r not in matched_rows and live[r].lifecycle is Lifecycle.CONFIRMED]
        if pool2 and low:
            assign(pool2, low, iou_cost(pred_boxes[pool2], [d.bbox for d in low]),
                   cfg.match_thresh_stage2)

        # Tentative tracks chase the remaining high-score detections (IoU only).
        tent = [r for r, t in enumerate(live) if t.lifecycle is Lifecycle.TENTATIVE]
        if tent and rest_high:
            rest_high = assign(tent, rest_high,
                               iou_cost(pred_boxes[tent], [d.bbox for d in rest_high]),
                               cfg.match_thresh_stage1)

        if matched_pairs:
            self._update_tracks(matched_pairs)
        emitted = [(live[r].id, d.bbox) for r, d, _ in matched_pairs
                   if live[r].lifecycle is Lifecycle.CONFIRMED]

        # Age out everything that went unmatched this frame; removed tracks
        # leave the state arrays, and the track list too if never confirmed.
        for r, t in enumerate(live):
            if r in matched_rows:
                continue
            t.age_since_update += 1
            if t.lifecycle is Lifecycle.TENTATIVE:
                t.lifecycle = Lifecycle.REMOVED
            elif t.lifecycle is Lifecycle.CONFIRMED:
                t.lifecycle = Lifecycle.LOST
            elif t.lifecycle is Lifecycle.LOST and t.age_since_update > cfg.max_age:
                t.lifecycle = Lifecycle.REMOVED
        keep = [t.lifecycle is not Lifecycle.REMOVED for t in live]
        if not all(keep):
            self._live = [t for t, k in zip(live, keep) if k]
            self.mean, self.cov = self.mean[keep], self.cov[keep]
            self.tracks = [t for t in self.tracks
                           if t.ever_confirmed or t.lifecycle is not Lifecycle.REMOVED]

        # Spawn fresh tracks from leftover high-score detections.
        if rest_high:
            states = []
            for d in rest_high:
                t = Track(self._next_id, d, cfg)
                self._next_id += 1
                self.tracks.append(t)
                self._live.append(t)
                states.append(kf_init(d.bbox.to_cxcyah()))
                if t.lifecycle is Lifecycle.CONFIRMED:
                    emitted.append((t.id, d.bbox))
            means, covs = zip(*states)
            self.mean = np.concatenate([self.mean, means])
            self.cov = np.concatenate([self.cov, covs])
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
