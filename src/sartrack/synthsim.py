"""Synthetic video-SAR scenario generator.

Moving targets render as dark shadow rectangles with a bright streak
displaced along the azimuth (horizontal) axis proportionally to their speed;
static occluders render as fixed dark line segments. Per-target appearance
embeddings flip to an "alias" vector (the next target's base vector) while
the target moves fast, mimicking the shadow/scatterer look transition that
breaks naive appearance association.

All randomness flows from numpy's SeedSequence: the scenario seed is split
into one child stream per concern (target init, per-target motion phases,
per-frame noise, perturbation), so generation is bitwise reproducible and
frames could be rendered in parallel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BBox, Detection, TrajectorySet
from .lfa import normalize_velocities

CLASS_NAMES = ("car", "ship", "airplane")

SHADOW_VALUE = -1.0
STREAK_VALUE = 5.0


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    seed: int = 0
    frames: int = 50
    width: int = 256
    height: int = 256
    n_moving: int = 5
    n_static_occluders: int = 3
    speed_min: float = 2.0
    speed_max: float = 4.0
    size_min: float = 10.0
    size_max: float = 20.0
    streak_gain: float = 2.0
    noise_amplitude: float = 0.5
    appearance_flip_speed: float = 1.0
    p_toggle: float = 0.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.n_moving < 0 or self.n_static_occluders < 0:
            raise ValueError("counts must be >= 0")
        if self.speed_max < self.speed_min or self.size_max < self.size_min:
            raise ValueError("empty speed or size range")
        if self.size_min <= 0:
            raise ValueError(f"size_min must be > 0, got {self.size_min}")
        if min(self.width, self.height) < 2 * self.size_max:
            raise ValueError(f"width and height must be >= 2 * size_max = {2 * self.size_max}, "
                             f"got {self.width}x{self.height}")
        if not 0.0 <= self.p_toggle <= 1.0:
            raise ValueError(f"p_toggle must be in [0,1], got {self.p_toggle}")


@dataclass(frozen=True, slots=True)
class PerturbConfig:
    seed: int = 0
    jitter_sigma: float = 0.0
    p_fn: float = 0.0
    lambda_fp: float = 0.0
    clutter_size_min: float = 6.0
    clutter_size_max: float = 24.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.p_fn <= 1.0:
            raise ValueError("p_fn must be in [0,1]")
        if self.jitter_sigma < 0 or self.lambda_fp < 0:
            raise ValueError("jitter_sigma and lambda_fp must be >= 0")
        if not 0.0 < self.clutter_size_min <= self.clutter_size_max:
            raise ValueError("need 0 < clutter_size_min <= clutter_size_max, got "
                             f"{self.clutter_size_min} and {self.clutter_size_max}")


@dataclass(frozen=True, slots=True)
class Scene:
    frames: list[np.ndarray]
    gt: TrajectorySet
    embeddings: dict[tuple[int, int], np.ndarray]  # (track id, frame) -> unit vec
    velocities: dict[tuple[int, int], float]       # (track id, frame) -> normalized v
    canvas: tuple[int, int]                        # (width, height)
    classes: dict[int, int]                        # track id -> class id


def _reflect(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    """Bounce a coordinate off [lo, hi], flipping its velocity on contact."""
    if pos < lo:
        return 2 * lo - pos, -vel
    if pos > hi:
        return 2 * hi - pos, -vel
    return pos, vel


def _draw_rect(img: np.ndarray, cx: float, cy: float, w: float, h: float, value: float):
    hh, ww = img.shape
    x0 = max(0, int(round(cx - w / 2)))
    x1 = min(ww, int(round(cx + w / 2)))
    y0 = max(0, int(round(cy - h / 2)))
    y1 = min(hh, int(round(cy + h / 2)))
    if x1 > x0 and y1 > y0:
        img[y0:y1, x0:x1] = value


def _draw_segment(img: np.ndarray, x0: float, y0: float, x1: float, y1: float, value: float):
    n = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
    xs = np.round(np.linspace(x0, x1, n)).astype(int)
    ys = np.round(np.linspace(y0, y1, n)).astype(int)
    keep = (xs >= 0) & (xs < img.shape[1]) & (ys >= 0) & (ys < img.shape[0])
    img[ys[keep], xs[keep]] = value


def generate_scene(cfg: ScenarioConfig) -> Scene:
    """Deterministic scene: frames, ground truth, embeddings, velocities."""
    ss = np.random.SeedSequence(cfg.seed)
    ss_targets, ss_motion, ss_noise, ss_occ = ss.spawn(4)
    rng_t = np.random.default_rng(ss_targets)
    rng_occ = np.random.default_rng(ss_occ)
    motion_rngs = [np.random.default_rng(s) for s in ss_motion.spawn(max(cfg.n_moving, 1))]
    noise_rngs = [np.random.default_rng(s) for s in ss_noise.spawn(cfg.frames)]

    n = cfg.n_moving
    dim = max(2, n)
    margin = cfg.size_max
    targets = []
    for i in range(n):
        w = rng_t.uniform(cfg.size_min, cfg.size_max)
        h = rng_t.uniform(cfg.size_min, cfg.size_max)
        cx = rng_t.uniform(margin, cfg.width - margin)
        cy = rng_t.uniform(margin, cfg.height - margin)
        speed = rng_t.uniform(cfg.speed_min, cfg.speed_max)
        ang = rng_t.uniform(0, 2 * math.pi)
        base = np.zeros(dim)
        base[i % dim] = 1.0
        alias = np.zeros(dim)
        alias[(i + 1) % dim] = 1.0
        targets.append({
            "id": i + 1, "w": w, "h": h, "cx": cx, "cy": cy,
            "speed": speed, "dx": math.cos(ang), "dy": math.sin(ang),
            "moving": True, "class": int(rng_t.integers(0, len(CLASS_NAMES))),
            "base": base, "alias": alias,
        })

    occluders = []
    for _ in range(cfg.n_static_occluders):
        x0 = rng_occ.uniform(0, cfg.width)
        y0 = rng_occ.uniform(0, cfg.height)
        length = rng_occ.uniform(cfg.size_max, 3 * cfg.size_max)
        ang = rng_occ.uniform(0, math.pi)
        occluders.append((x0, y0, x0 + length * math.cos(ang), y0 + length * math.sin(ang)))

    frames_out: list[np.ndarray] = []
    tracks: dict[int, list[tuple[int, BBox]]] = {t["id"]: [] for t in targets}
    embeddings: dict[tuple[int, int], np.ndarray] = {}
    raw_vel: dict[tuple[int, int], float] = {}
    prev_center: dict[int, tuple[float, float]] = {}

    for f in range(1, cfg.frames + 1):
        img = noise_rngs[f - 1].uniform(0.0, cfg.noise_amplitude,
                                        (cfg.height, cfg.width)) if cfg.noise_amplitude > 0 \
            else np.zeros((cfg.height, cfg.width))
        for seg in occluders:
            _draw_segment(img, *seg, SHADOW_VALUE)
        for i, t in enumerate(targets):
            if f > 1:
                if cfg.p_toggle > 0 and motion_rngs[i].random() < cfg.p_toggle:
                    t["moving"] = not t["moving"]
                if t["moving"]:
                    t["cx"] += t["speed"] * t["dx"]
                    t["cy"] += t["speed"] * t["dy"]
                    t["cx"], t["dx"] = _reflect(t["cx"], t["dx"], t["w"] / 2,
                                                cfg.width - t["w"] / 2)
                    t["cy"], t["dy"] = _reflect(t["cy"], t["dy"], t["h"] / 2,
                                                cfg.height - t["h"] / 2)
            speed_now = t["speed"] if t["moving"] else 0.0
            _draw_rect(img, t["cx"], t["cy"], t["w"], t["h"], SHADOW_VALUE)
            if speed_now > 0 and cfg.streak_gain > 0:
                off = cfg.streak_gain * speed_now
                _draw_segment(img, t["cx"] + off - t["w"] / 2, t["cy"],
                              t["cx"] + off + t["w"] / 2, t["cy"], STREAK_VALUE)
            bbox = BBox(t["cx"] - t["w"] / 2, t["cy"] - t["h"] / 2, t["w"], t["h"])
            tracks[t["id"]].append((f, bbox))
            flipped = speed_now > cfg.appearance_flip_speed
            embeddings[(t["id"], f)] = t["alias"] if flipped else t["base"]
            if t["id"] in prev_center:
                px, py = prev_center[t["id"]]
                raw_vel[(t["id"], f)] = math.hypot(t["cx"] - px, t["cy"] - py)
            else:
                raw_vel[(t["id"], f)] = 0.0
            prev_center[t["id"]] = (t["cx"], t["cy"])
        frames_out.append(img[:, :, None])

    keys = sorted(raw_vel)
    if keys:
        normed = normalize_velocities([raw_vel[k] for k in keys])
        velocities = {k: float(v) for k, v in zip(keys, normed)}
    else:
        velocities = {}
    gt = TrajectorySet.build(sorted(tracks.items()))
    classes = {t["id"]: t["class"] for t in targets}
    return Scene(frames_out, gt, embeddings, velocities, (cfg.width, cfg.height), classes)


def perturb_detections(scene: Scene, cfg: PerturbConfig) -> dict[int, list[Detection]]:
    """Detector surrogate: drop, jitter, and clutter the ground truth.

    Matched detections carry the (possibly flipped) embedding and the
    normalized ground-truth velocity as motion awareness; clutter carries a
    random embedding and motion awareness 0.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    width, height = scene.canvas
    dim = len(next(iter(scene.embeddings.values()))) if scene.embeddings else 4
    out: dict[int, list[Detection]] = {}
    by_frame = scene.gt.boxes_by_frame()
    all_frames = sorted(by_frame)
    for f in all_frames:
        dets: list[Detection] = []
        for tid, b in by_frame[f]:
            if rng.random() < cfg.p_fn:
                continue
            cx, cy = b.center()
            w, h = b.w, b.h
            if cfg.jitter_sigma > 0:
                cx += rng.normal(0, cfg.jitter_sigma)
                cy += rng.normal(0, cfg.jitter_sigma)
                w = math.exp(math.log(w) + rng.normal(0, cfg.jitter_sigma))
                h = math.exp(math.log(h) + rng.normal(0, cfg.jitter_sigma))
            dets.append(Detection(
                frame=f,
                bbox=BBox(cx - w / 2, cy - h / 2, w, h),
                score=float(rng.uniform(0.6, 1.0)),
                class_id=scene.classes.get(tid, 0),
                motion_awareness=scene.velocities.get((tid, f), 0.0),
                embedding=scene.embeddings.get((tid, f)),
            ))
        for _ in range(int(rng.poisson(cfg.lambda_fp))):
            w = rng.uniform(cfg.clutter_size_min, cfg.clutter_size_max)
            h = rng.uniform(cfg.clutter_size_min, cfg.clutter_size_max)
            cx = rng.uniform(w / 2, width - w / 2)
            cy = rng.uniform(h / 2, height - h / 2)
            vec = rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
            dets.append(Detection(
                frame=f,
                bbox=BBox(cx - w / 2, cy - h / 2, w, h),
                score=float(rng.uniform(0.1, 0.7)),
                class_id=int(rng.integers(0, len(CLASS_NAMES))),
                motion_awareness=0.0,
                embedding=vec,
            ))
        out[f] = dets
    return out
