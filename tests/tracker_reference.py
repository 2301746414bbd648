"""Frozen reference for the equivalence tests: the per-track Kalman filter
(`motion.py`) and the tracker (`assoc.py`) as they were when every track held
its own frozen `KalmanState` and was predicted and updated one at a time,
kept verbatim apart from this docstring, the merged imports and the two
box conversions, `_to_cxcyah` and `_from_cxcyah`, inlined from the former
`BBox` methods with the same arithmetic. `Affine2x3`, `TrackerConfig`,
`FORBIDDEN_COST` and the box kernel come from the library, and
`track_sequence` is left out. Test-only; do not change it
to follow the library.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from sartrack.assoc import FORBIDDEN_COST, TrackerConfig
from sartrack.core import BBox, Detection, TrajectorySet, iou
from sartrack.motion import Affine2x3


@dataclass(frozen=True)
class NoiseProfile:
    std_weight_position: float = 1.0 / 20.0
    std_weight_velocity: float = 1.0 / 160.0


DEFAULT_NOISE = NoiseProfile()


def _to_cxcyah(b: BBox) -> tuple[float, float, float, float]:
    return (b.x + b.w / 2.0, b.y + b.h / 2.0, b.w / b.h, b.h)


def _from_cxcyah(cx: float, cy: float, a: float, h: float) -> BBox:
    w = a * h
    return BBox(cx - w / 2.0, cy - h / 2.0, w, h)


# State layout: (cx, cy, a, h, vcx, vcy, va, vh)
_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8)


@dataclass(frozen=True)
class KalmanState:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (8,) or cov.shape != (8, 8):
            raise ValueError("state must be an 8-vector with 8x8 covariance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def position(self) -> np.ndarray:
        return self.mean[:4]

    def speed(self) -> float:
        return float(np.hypot(self.mean[4], self.mean[5]))


def kf_init(measurement, noise: NoiseProfile = DEFAULT_NOISE) -> KalmanState:
    """Start a track from one (cx, cy, a, h) measurement, zero velocity."""
    z = np.asarray(measurement, dtype=float)
    h = z[3]
    if h <= 0:
        raise ValueError(f"height must be positive, got {h}")
    mean = np.zeros(8)
    mean[:4] = z
    wp, wv = noise.std_weight_position, noise.std_weight_velocity
    std = np.array([2 * wp * h, 2 * wp * h, 1e-2, 2 * wp * h,
                    10 * wv * h, 10 * wv * h, 1e-5, 10 * wv * h])
    return KalmanState(mean, np.diag(std ** 2))


def _process_noise(h: float, noise: NoiseProfile) -> np.ndarray:
    wp, wv = noise.std_weight_position, noise.std_weight_velocity
    std = np.array([wp * h, wp * h, 1e-2, wp * h,
                    wv * h, wv * h, 1e-5, wv * h])
    return np.diag(std ** 2)


def kf_predict(s: KalmanState, noise: NoiseProfile = DEFAULT_NOISE) -> KalmanState:
    """Unit-timestep constant-velocity prediction."""
    h = s.mean[3]
    mean = _F @ s.mean
    cov = _F @ s.cov @ _F.T + _process_noise(h, noise)
    return KalmanState(mean, 0.5 * (cov + cov.T))


def kf_update(s: KalmanState, measurement,
              noise: NoiseProfile = DEFAULT_NOISE) -> KalmanState:
    """Standard Kalman correction with H = [I4 0]."""
    z = np.asarray(measurement, dtype=float)
    h = s.mean[3]
    wp = noise.std_weight_position
    r_std = np.array([wp * h, wp * h, 1e-1, wp * h])
    r = np.diag(r_std ** 2)
    innov_cov = _H @ s.cov @ _H.T + r
    try:
        gain = np.linalg.solve(innov_cov.T, (s.cov @ _H.T).T).T
    except np.linalg.LinAlgError as e:
        raise ValueError("singular innovation covariance") from e
    mean = s.mean + gain @ (z - _H @ s.mean)
    cov = (np.eye(8) - gain @ _H) @ s.cov
    return KalmanState(mean, 0.5 * (cov + cov.T))


def apply_cmc(states: list[KalmanState], m: Affine2x3) -> list[KalmanState]:
    """Carry states into the current frame's geometry.

    Centers get the full affine; center velocities are rotated only; aspect
    and height are untouched. The position covariance block is rotated.
    """
    if m.is_identity():
        return list(states)
    rot, t = m.rot, m.t
    out = []
    for s in states:
        mean = s.mean.copy()
        mean[:2] = rot @ s.mean[:2] + t
        mean[4:6] = rot @ s.mean[4:6]
        cov = s.cov.copy()
        cov[:2, :2] = rot @ s.cov[:2, :2] @ rot.T
        out.append(KalmanState(mean, cov))
    return out


class Lifecycle(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    LOST = "lost"
    REMOVED = "removed"


class Track:
    """One trajectory hypothesis with Kalman state and EMA appearance."""

    def __init__(self, track_id: int, det: Detection, cfg: TrackerConfig):
        self.id = track_id
        self.kstate: KalmanState = kf_init(_to_cxcyah(det.bbox))
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
        return _from_cxcyah(cx, cy, a, h)

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
        t.kstate = kf_update(t.kstate, _to_cxcyah(d.bbox))
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

